#include "runtime/gateway.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "util/log.hpp"

namespace hidp::runtime {

// ---- flat-JSON field extraction ---------------------------------------------

namespace jsonl {
namespace {
/// Position just past `"key"` followed by ':', or npos.
std::size_t value_start(const std::string& line, const std::string& key) {
  const std::string quoted = "\"" + key + "\"";
  std::size_t pos = 0;
  while ((pos = line.find(quoted, pos)) != std::string::npos) {
    std::size_t after = pos + quoted.size();
    while (after < line.size() && std::isspace(static_cast<unsigned char>(line[after]))) {
      ++after;
    }
    if (after < line.size() && line[after] == ':') {
      ++after;
      while (after < line.size() && std::isspace(static_cast<unsigned char>(line[after]))) {
        ++after;
      }
      return after;
    }
    pos += quoted.size();
  }
  return std::string::npos;
}
}  // namespace

std::optional<std::string> string_field(const std::string& line, const std::string& key) {
  std::size_t at = value_start(line, key);
  if (at == std::string::npos || at >= line.size() || line[at] != '"') return std::nullopt;
  std::string out;
  for (std::size_t i = at + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      out.push_back(line[++i]);  // minimal escapes: the next char literally
      continue;
    }
    if (c == '"') return out;
    out.push_back(c);
  }
  return std::nullopt;  // unterminated string
}

std::optional<double> number_field(const std::string& line, const std::string& key) {
  const std::size_t at = value_start(line, key);
  if (at == std::string::npos || at >= line.size()) return std::nullopt;
  const char* begin = line.c_str() + at;
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return value;
}

}  // namespace jsonl

namespace {

std::optional<QosClass> parse_qos(const std::string& name) {
  for (const QosClass qos :
       {QosClass::kBestEffort, QosClass::kStandard, QosClass::kInteractive}) {
    if (name == qos_class_name(qos)) return qos;
  }
  return std::nullopt;
}

std::string escape_json(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string error_line(long tag, const std::string& message) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "{\"event\":\"error\",\"id\":%ld,\"error\":\"%s\"}",
                tag, escape_json(message).c_str());
  return buffer;
}

}  // namespace

// ---- Gateway ---------------------------------------------------------------

std::optional<RequestSpec> Gateway::TerminalTap::next(double now_s) {
  (void)now_s;
  return std::nullopt;  // the tap issues nothing; submissions come via admit()
}

void Gateway::TerminalTap::on_complete(const RequestRecord& record, double now_s) {
  (void)now_s;
  gateway->on_terminal(record);
}

Gateway::Gateway(ServiceFleet& fleet, ModelRegistry models, Options options,
                 PlannerPool::StrategyFactory planner_factory)
    : fleet_(&fleet), models_(std::move(models)), options_(options), tap_(this) {
  init(std::move(planner_factory));
}

Gateway::Gateway(InferenceService& service, ModelRegistry models, Options options,
                 PlannerPool::StrategyFactory planner_factory)
    : service_(&service), models_(std::move(models)), options_(options), tap_(this) {
  init(std::move(planner_factory));
}

void Gateway::init(PlannerPool::StrategyFactory planner_factory) {
  if (options_.planner_workers > 0) {
    if (!planner_factory) {
      throw std::invalid_argument("Gateway: planner_workers set without a strategy factory");
    }
    pool_ = std::make_unique<PlannerPool>(options_.planner_workers,
                                          std::move(planner_factory));
    pool_->set_completion_signal([this] { clock_.wake(); });
    if (fleet_ != nullptr) {
      for (std::size_t i = 0; i < fleet_->shard_count(); ++i) {
        fleet_->shard(i).set_plan_provider(pool_.get());
      }
    } else {
      service_->set_plan_provider(pool_.get());
    }
  }
  if (fleet_ != nullptr) {
    fleet_->attach(&tap_);
  } else {
    service_->attach(&tap_);
  }
}

Gateway::~Gateway() {
  stop();
  // Detach everything wired into the fleet/service so it outlives the
  // gateway cleanly (and destroy the pool before the services it plans
  // for stop existing).
  if (fleet_ != nullptr) {
    fleet_->attach(nullptr);
    for (std::size_t i = 0; i < fleet_->shard_count(); ++i) {
      fleet_->shard(i).set_plan_provider(nullptr);
    }
  } else {
    service_->attach(nullptr);
    service_->set_plan_provider(nullptr);
  }
  pool_.reset();
}

Cluster& Gateway::cluster() {
  return fleet_ != nullptr ? fleet_->cluster() : service_->cluster();
}

const dnn::DnnGraph* Gateway::find_model(const std::string& name) const {
  const auto it = models_.find(name);
  return it != models_.end() ? it->second : nullptr;
}

GatewayStats Gateway::stats() const {
  GatewayStats stats;
  stats.received = received_.load(std::memory_order_relaxed);
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.responded = responded_.load(std::memory_order_relaxed);
  stats.bad_lines = bad_lines_.load(std::memory_order_relaxed);
  stats.repaired_plans = repaired_plans_.load(std::memory_order_relaxed);
  stats.cold_replans = cold_replans_.load(std::memory_order_relaxed);
  stats.partial_repriced_rows = partial_repriced_rows_.load(std::memory_order_relaxed);
  stats.open_connections = open_connections_.load(std::memory_order_relaxed);
  if (pool_) {
    const PlannerDeltaStats pool_stats = pool_->planner_stats();
    stats.repaired_plans += pool_stats.repaired_plans;
    stats.cold_replans += pool_stats.cold_replans;
    stats.partial_repriced_rows += pool_stats.partial_repriced_rows;
  }
  return stats;
}

void Gateway::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  stopping_.store(false, std::memory_order_release);
  listen_tcp();
  poll_set_.assign(1, pollfd{listen_fd_, POLLIN, 0});
  clock_.set_poll_set(&poll_set_);
  driver_ = std::thread([this] { driver_loop(); });
}

void Gateway::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  clock_.wake();
  // The driver drains every in-flight request to a terminal outcome (still
  // writing responses to open connections) before exiting.
  if (driver_.joinable()) driver_.join();
  clock_.set_poll_set(nullptr);
  for (const auto& connection : connections_) {
    if (connection->fd >= 0) close_connection(*connection);
  }
  connections_.clear();
  poll_set_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void Gateway::submit(const GatewayRequest& request,
                     std::function<void(const RequestRecord&)> on_done) {
  if (request.model == nullptr) throw std::invalid_argument("Gateway::submit: null model");
  received_.fetch_add(1, std::memory_order_relaxed);
  submissions_.push(Submission{request, std::move(on_done)});
  // Wake after the push: the driver's next drain sees this submission.
  clock_.wake();
}

void Gateway::driver_loop() {
  sim::Simulator& sim = cluster().simulator();
  sim.set_clock(&clock_);
  sim.set_pump([this] { return pump(); });
  sim.run();
  sim.set_pump(nullptr);
  // Run whatever is already due when the pump stopped the loop, so stop()
  // leaves no event at or before the stop instant unexecuted. This no
  // longer guards a leak: a finished run is freed with its last callback,
  // and pending events release their captures with the simulator.
  sim.run_until(sim.now());
  sim.set_clock(nullptr);  // back to the owned VirtualClock (pure DES)
}

bool Gateway::pump() {
  if (pool_) pool_->pump();
  {
    // Mirror the driver-thread-only planner counters for cross-thread
    // readers (stats() and the TCP stats line).
    const ServiceStats service_stats =
        fleet_ != nullptr ? fleet_->stats() : service_->stats();
    repaired_plans_.store(service_stats.repaired_plans, std::memory_order_relaxed);
    cold_replans_.store(service_stats.cold_replans, std::memory_order_relaxed);
    partial_repriced_rows_.store(service_stats.partial_repriced_rows,
                                 std::memory_order_relaxed);
  }
  serve_sockets();
  std::deque<Submission> batch = submissions_.drain();
  for (Submission& submission : batch) admit(std::move(submission));
  if (stopping_.load(std::memory_order_acquire)) {
    if (!callbacks_.empty() && submissions_.empty() && cluster().simulator().pending() == 0) {
      // Nothing left that could move these requests: requests parked on a
      // dead shard with no repair event coming can only fail. (Requests
      // waiting on planner-pool deliveries are in flight, not pending —
      // the sweep leaves them alone and their deliveries drain above.)
      finalize_stranded();
    }
    return !(callbacks_.empty() && submissions_.empty());
  }
  return true;
}

void Gateway::admit(Submission&& submission) {
  RequestSpec spec;
  spec.id = next_id_++;
  spec.model = submission.request.model;
  spec.qos = submission.request.qos;
  // The wall clock leads the simulator between events; never stamp an
  // arrival before the simulator's current instant.
  const double now_s = std::max(clock_.now(), cluster().simulator().now());
  spec.arrival_s = now_s;
  spec.deadline_s = submission.request.deadline_rel_s > 0.0
                        ? now_s + submission.request.deadline_rel_s
                        : 0.0;
  callbacks_.emplace(spec.id, std::move(submission.on_done));
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (fleet_ != nullptr) {
    fleet_->submit(spec);
  } else {
    service_->submit(spec);
  }
}

void Gateway::on_terminal(const RequestRecord& record) {
  const auto it = callbacks_.find(record.id);
  if (it == callbacks_.end()) return;  // not a gateway request (other sources)
  auto on_done = std::move(it->second);
  callbacks_.erase(it);
  responded_.fetch_add(1, std::memory_order_relaxed);
  if (on_done) on_done(record);
}

void Gateway::finalize_stranded() {
  bool again = true;
  while (again) {
    again = false;
    if (fleet_ != nullptr) {
      for (std::size_t i = 0; i < fleet_->shard_count(); ++i) {
        again = fleet_->shard(i).finalize_stranded() || again;
      }
    } else {
      again = service_->finalize_stranded();
    }
  }
}

// ---- TCP front end ---------------------------------------------------------

void Gateway::listen_tcp() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("Gateway: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Gateway: bind/listen on 127.0.0.1 failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Gateway: getsockname failed");
  }
  port_ = ntohs(bound.sin_port);
}

void Gateway::serve_sockets() {
  pollfd& listener = poll_set_[0];
  if (stopping_.load(std::memory_order_acquire)) listener.fd = -1;  // stop accepting
  if (listener.revents != 0) {
    listener.revents = 0;
    if (listener.fd >= 0) accept_connections();
  }
  // Connections accepted just now have no revents yet.
  for (std::size_t i = 1; i < poll_set_.size(); ++i) {
    if (poll_set_[i].revents == 0) continue;
    poll_set_[i].revents = 0;
    if (poll_set_[i].fd >= 0) read_connection(connections_[i - 1]);
  }
  // Reap what closed since the last pass; close_connection() already took
  // each one out of the poll.
  if (connections_.size() == open_connections_.load(std::memory_order_relaxed)) return;
  std::size_t kept = 1;
  for (std::size_t i = 1; i < poll_set_.size(); ++i) {
    if (poll_set_[i].fd < 0) continue;
    if (kept != i) {
      poll_set_[kept] = poll_set_[i];
      connections_[kept - 1] = std::move(connections_[i - 1]);
    }
    ++kept;
  }
  poll_set_.resize(kept);
  connections_.resize(kept - 1);
}

void Gateway::accept_connections() {
  // The listen socket is non-blocking: accept until the backlog is empty.
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) return;
    // Responses are small writes; without this each one written while the
    // previous is unacknowledged waits for the client's delayed ACK.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    connections_.push_back(std::move(connection));
    poll_set_.push_back(pollfd{fd, POLLIN, 0});
    open_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Gateway::read_connection(const std::shared_ptr<Connection>& connection) {
  Connection& c = *connection;
  char chunk[16384];
  const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
  if (n <= 0) {
    // EOF or error: a partial last line is dropped, as are the responses
    // still due to this connection.
    close_connection(c);
    return;
  }
  // Split complete lines from an offset and erase once per recv; only the
  // new bytes are scanned for newlines.
  std::size_t start = 0;
  std::size_t scan = c.buffer.size();
  c.buffer.append(chunk, static_cast<std::size_t>(n));
  std::size_t pos;
  bool overlong = false;
  while (c.fd >= 0 && (pos = c.buffer.find('\n', scan)) != std::string::npos) {
    std::size_t length = pos - start;
    if (length > kMaxLineBytes) {
      overlong = true;
      break;
    }
    if (length > 0 && c.buffer[pos - 1] == '\r') --length;
    if (length > 0) handle_line(connection, c.buffer.substr(start, length));
    start = scan = pos + 1;
  }
  if (c.fd < 0) return;  // a response write failed and closed the connection
  c.buffer.erase(0, start);
  if (overlong || c.buffer.size() > kMaxLineBytes) {
    bad_lines_.fetch_add(1, std::memory_order_relaxed);
    write_line(c, error_line(-1, "line exceeds " + std::to_string(kMaxLineBytes) + " bytes"));
    if (c.fd >= 0) close_connection(c);
  }
}

void Gateway::close_connection(Connection& connection) {
  for (std::size_t i = 1; i < poll_set_.size(); ++i) {
    if (poll_set_[i].fd == connection.fd) poll_set_[i].fd = -1;
  }
  ::close(connection.fd);
  connection.fd = -1;
  std::string().swap(connection.buffer);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void Gateway::handle_line(const std::shared_ptr<Connection>& connection,
                          const std::string& line) {
  const auto tag_field = jsonl::number_field(line, "id");
  const long tag = tag_field ? static_cast<long>(*tag_field) : -1;
  if (const auto cmd = jsonl::string_field(line, "cmd")) {
    if (*cmd == "stats") {
      const GatewayStats s = stats();
      char buffer[384];
      std::snprintf(buffer, sizeof(buffer),
                    "{\"event\":\"stats\",\"id\":%ld,\"received\":%llu,"
                    "\"submitted\":%llu,\"responded\":%llu,\"bad_lines\":%llu,"
                    "\"repaired_plans\":%llu,\"cold_replans\":%llu,"
                    "\"partial_repriced_rows\":%llu,\"open_connections\":%llu}",
                    tag, static_cast<unsigned long long>(s.received),
                    static_cast<unsigned long long>(s.submitted),
                    static_cast<unsigned long long>(s.responded),
                    static_cast<unsigned long long>(s.bad_lines),
                    static_cast<unsigned long long>(s.repaired_plans),
                    static_cast<unsigned long long>(s.cold_replans),
                    static_cast<unsigned long long>(s.partial_repriced_rows),
                    static_cast<unsigned long long>(s.open_connections));
      write_line(*connection, buffer);
      return;
    }
    bad_lines_.fetch_add(1, std::memory_order_relaxed);
    write_line(*connection, error_line(tag, "unknown cmd: " + *cmd));
    return;
  }
  const auto model_name = jsonl::string_field(line, "model");
  if (!model_name) {
    bad_lines_.fetch_add(1, std::memory_order_relaxed);
    write_line(*connection, error_line(tag, "missing model"));
    return;
  }
  const dnn::DnnGraph* model = find_model(*model_name);
  if (model == nullptr) {
    bad_lines_.fetch_add(1, std::memory_order_relaxed);
    write_line(*connection, error_line(tag, "unknown model: " + *model_name));
    return;
  }
  GatewayRequest request;
  request.model = model;
  if (const auto qos_name = jsonl::string_field(line, "qos")) {
    const auto qos = parse_qos(*qos_name);
    if (!qos) {
      bad_lines_.fetch_add(1, std::memory_order_relaxed);
      write_line(*connection, error_line(tag, "unknown qos: " + *qos_name));
      return;
    }
    request.qos = *qos;
  }
  if (const auto deadline_ms = jsonl::number_field(line, "deadline_ms")) {
    request.deadline_rel_s = *deadline_ms / 1000.0;
  }
  {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer), "{\"event\":\"accepted\",\"id\":%ld}", tag);
    write_line(*connection, buffer);
  }
  received_.fetch_add(1, std::memory_order_relaxed);
  admit(Submission{request, [this, connection, tag](const RequestRecord& record) {
                     char buffer[256];
                     std::snprintf(buffer, sizeof(buffer),
                                   "{\"event\":\"done\",\"id\":%ld,\"outcome\":\"%s\","
                                   "\"latency_ms\":%.3f,\"model\":\"%s\"}",
                                   tag,
                                   std::string(request_outcome_name(record.outcome)).c_str(),
                                   record.latency_s() * 1e3, escape_json(record.model).c_str());
                     write_line(*connection, buffer);
                   }});
}

void Gateway::write_line(Connection& connection, const std::string& line) {
  if (connection.fd < 0) return;  // closed: the response is dropped
  std::string framed = line;
  framed.push_back('\n');
  std::size_t offset = 0;
  while (offset < framed.size()) {
    const ssize_t n = ::send(connection.fd, framed.data() + offset, framed.size() - offset,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      close_connection(connection);
      return;
    }
    offset += static_cast<std::size_t>(n);
  }
}

// ---- LineClient ------------------------------------------------------------

LineClient::~LineClient() { close(); }

bool LineClient::connect(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  // Pipelined request lines must not wait for the gateway's delayed ACK.
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool LineClient::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed.push_back('\n');
  std::size_t offset = 0;
  while (offset < framed.size()) {
    const ssize_t n =
        ::send(fd_, framed.data() + offset, framed.size() - offset, MSG_NOSIGNAL);
    if (n <= 0) return false;
    offset += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> LineClient::read_line(double timeout_s) {
  if (fd_ < 0) return std::nullopt;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  for (;;) {
    const std::size_t pos = buffer_.find('\n');
    if (pos != std::string::npos) {
      std::string line = buffer_.substr(0, pos);
      buffer_.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    const auto remaining = deadline - std::chrono::steady_clock::now();
    if (remaining <= std::chrono::steady_clock::duration::zero()) return std::nullopt;
    const int timeout_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining).count());
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, std::max(timeout_ms, 1));
    if (rc < 0) return std::nullopt;
    if (rc == 0) continue;  // loop re-checks the deadline
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return std::nullopt;  // EOF / error
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void LineClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

}  // namespace hidp::runtime
