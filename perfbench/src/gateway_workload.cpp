// gateway-open: the 4-shard fleet behind runtime::Gateway, driven over one
// loopback connection by a Poisson open loop. This is the only workload
// where line parsing, MPSC admission, wall-clock pacing and socket writes
// sit on the request path.
//
// The client is two threads on one connection: the sender sleeps until each
// request's due time and writes its line, the reader collects the
// "accepted" and "done" events. Latency is timed from the due time, so a
// stall that delays later sends still counts. The client sets TCP_NODELAY
// on its own socket; any remaining small-write stall belongs to the
// gateway. Planning stays inline on the gateway's event-loop thread.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "fleet_rig.hpp"
#include "runtime/gateway.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace rt = hidp::runtime;

constexpr double kRateHz = 60.0;
constexpr double kLimitS = 0.300;  // as fleet-steady, whose capacity ladder is shared
constexpr int kSetupRepeats = 9;
constexpr double kDrainTimeoutS = 10.0;

const char* const kModelNames[] = {"efficientnet-b0", "resnet152", "inception-v3"};

/// Client socket to the gateway with Nagle's algorithm off.
class ClientSocket {
 public:
  explicit ClientSocket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("client socket() failed");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      throw std::runtime_error("client connect() failed");
    }
  }
  ~ClientSocket() { ::close(fd_); }
  ClientSocket(const ClientSocket&) = delete;
  ClientSocket& operator=(const ClientSocket&) = delete;

  bool send_all(const std::string& data) const {
    std::size_t offset = 0;
    while (offset < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + offset, data.size() - offset, MSG_NOSIGNAL);
      if (n <= 0) return false;
      offset += static_cast<std::size_t>(n);
    }
    return true;
  }
  int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
};

/// What the reader thread observed; owned by that thread until joined.
struct ReaderLog {
  std::vector<double> accept_s, done_s, recorded_ms;
  std::vector<int> accepts, dones;
  std::vector<bool> completed;
  std::size_t errors = 0, unknown = 0;
  double cpu_s = 0.0;
};

/// One gateway run: set-up, the open loop over `arrivals`, drain, stop.
struct GatewayRun {
  std::vector<double> setup_s;
  std::vector<double> due_s, send_s;
  ReaderLog reader;
  double window_s = 0.0;
  double host_cpu_s = 0.0;  ///< process CPU in the window minus the client's
  std::uint64_t events = 0;
  std::uint64_t plans = 0, cache_hits = 0;
  double energy_per_completed_j = 0.0;
  rt::ServiceStats stats;
  rt::GatewayStats gateway;
  std::size_t evacuations = 0, steals = 0;
  rt::PlannerDeltaStats delta;
};

void read_events(int fd, std::size_t expected, const std::atomic<bool>& sending_done,
                 double give_up_after_s, ReaderLog& log) {
  const double c0 = thread_cpu_s();
  std::string buffer;
  char chunk[8192];
  std::size_t done = 0;
  double idle_since = wall_s();
  while (done < expected) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 50);
    if (rc < 0) break;
    if (rc == 0) {
      if (sending_done.load(std::memory_order_acquire) && wall_s() - idle_since > give_up_after_s) {
        break;
      }
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    const double now = wall_s();
    idle_since = now;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0, pos;
    while ((pos = buffer.find('\n', start)) != std::string::npos) {
      const std::string line = buffer.substr(start, pos - start);
      start = pos + 1;
      const auto event = rt::jsonl::string_field(line, "event");
      const auto id_field = rt::jsonl::number_field(line, "id");
      const long id = id_field ? static_cast<long>(*id_field) : -1;
      if (!event || id < 0 || static_cast<std::size_t>(id) >= expected) {
        ++log.unknown;
        continue;
      }
      const auto i = static_cast<std::size_t>(id);
      if (*event == "accepted") {
        if (log.accepts[i]++ == 0) log.accept_s[i] = now;
      } else if (*event == "done") {
        if (log.dones[i]++ == 0) {
          ++done;
          log.done_s[i] = now;
          log.recorded_ms[i] = rt::jsonl::number_field(line, "latency_ms").value_or(-1.0);
          log.completed[i] = rt::jsonl::string_field(line, "outcome").value_or("") == "completed";
        }
      } else {
        ++log.errors;
      }
    }
    buffer.erase(0, start);
  }
  log.cpu_s = thread_cpu_s() - c0;
}

GatewayRun serve_trace(const std::vector<Arrival>& arrivals, bool traced, SpanLog* log) {
  GatewayRun run;
  const FleetShape shape = steady_shape();
  std::unique_ptr<FleetRig> rig;
  std::unique_ptr<rt::Gateway> gateway;
  std::unique_ptr<ClientSocket> client;
  // Set-up is repeated and the last instance kept: gateway start-up is
  // short, and one sample of it would not repeat within a tenth.
  for (int k = 0; k < kSetupRepeats; ++k) {
    client.reset();
    gateway.reset();
    rig.reset();
    const double t0 = wall_s();
    rig = std::make_unique<FleetRig>(shape, std::vector<Arrival>{}, traced ? log : nullptr);
    rt::Gateway::ModelRegistry registry;
    for (std::size_t m = 0; m < fleet_mix().size(); ++m) {
      registry[kModelNames[m]] = &rig->models().graph(fleet_mix()[m]);
    }
    gateway = std::make_unique<rt::Gateway>(rig->fleet(), registry);
    gateway->start();
    client = std::make_unique<ClientSocket>(gateway->port());
    run.setup_s.push_back(wall_s() - t0);
  }

  const std::size_t n = arrivals.size();
  run.reader.accept_s.assign(n, 0.0);
  run.reader.done_s.assign(n, 0.0);
  run.reader.recorded_ms.assign(n, 0.0);
  run.reader.accepts.assign(n, 0);
  run.reader.dones.assign(n, 0);
  run.reader.completed.assign(n, false);
  run.due_s.assign(n, 0.0);
  run.send_s.assign(n, 0.0);

  std::atomic<bool> sending_done{false};
  const std::uint64_t events0 = rig->cluster().simulator().events_executed();
  const double cpu0 = process_cpu_s();
  const double sender_cpu0 = thread_cpu_s();
  const double start = wall_s() + 0.05;
  // jthread joins on every path; the reader stops at most kDrainTimeoutS
  // after sending_done is set, which the catch below guarantees.
  std::jthread reader(read_events, client->fd(), n, std::cref(sending_done), kDrainTimeoutS,
                      std::ref(run.reader));
  try {
    std::string line;
    for (std::size_t i = 0; i < n; ++i) {
      const double due = start + arrivals[i].time_s;
      run.due_s[i] = due;
      const double wait = due - wall_s();
      if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      line = "{\"id\":" + std::to_string(i) + ",\"model\":\"" +
             kModelNames[arrivals[i].model] + "\"}\n";
      run.send_s[i] = wall_s();
      if (!client->send_all(line)) break;
    }
  } catch (...) {
    sending_done.store(true, std::memory_order_release);
    throw;
  }
  const double sender_cpu = thread_cpu_s() - sender_cpu0;
  sending_done.store(true, std::memory_order_release);
  reader.join();
  run.window_s = wall_s() - start;
  run.host_cpu_s = process_cpu_s() - cpu0 - sender_cpu - run.reader.cpu_s;

  gateway->stop();  // joins the event loop: fleet state is readable from here on
  run.gateway = gateway->stats();
  run.events = rig->cluster().simulator().events_executed() - events0;
  run.stats = rig->fleet().stats();
  run.evacuations = rig->fleet().evacuations();
  run.steals = rig->fleet().steals();
  run.delta = rig->planner_delta();
  run.plans = rig->plans();
  run.cache_hits = rig->cache_hits();
  const double horizon = rig->cluster().simulator().now();
  run.energy_per_completed_j =
      run.stats.completed > 0
          ? rig->cluster().total_energy_j(horizon) / static_cast<double>(run.stats.completed)
          : 0.0;
  client.reset();
  gateway.reset();
  return run;
}

void check_run(const GatewayRun& s, Result& result) {
  const std::size_t n = s.due_s.size();
  result.attempted += n;
  for (std::size_t i = 0; i < n; ++i) {
    if (s.reader.accepts[i] != 1 || s.reader.dones[i] != 1) {
      result.violation("request " + std::to_string(i) + ": " +
                       std::to_string(s.reader.accepts[i]) + " accepted, " +
                       std::to_string(s.reader.dones[i]) + " done lines");
    }
  }
  if (s.reader.errors > 0 || s.reader.unknown > 0) {
    result.violation(std::to_string(s.reader.errors) + " error and " +
                     std::to_string(s.reader.unknown) + " unparsable events");
  }
  const rt::ServiceStats& st = s.stats;
  const std::size_t terminal =
      st.completed + st.rejected + st.dropped + st.deadline_misses + st.failed;
  if (st.submitted != n || st.submitted + st.stolen_in != terminal + st.stolen_away) {
    result.violation("fleet balance: submitted " + std::to_string(st.submitted) +
                     ", terminal " + std::to_string(terminal));
  }
  if (s.gateway.received != n || s.gateway.responded != n || s.gateway.bad_lines != 0) {
    result.violation("gateway counters: received " + std::to_string(s.gateway.received) +
                     ", responded " + std::to_string(s.gateway.responded));
  }
}

/// Client latency from the due time, in ms, over completed requests.
std::vector<double> client_latency_ms(const GatewayRun& s) {
  std::vector<double> out;
  for (std::size_t i = 0; i < s.due_s.size(); ++i) {
    if (s.reader.completed[i]) out.push_back((s.reader.done_s[i] - s.due_s[i]) * 1e3);
  }
  return out;
}

}  // namespace

Result run_gateway_open(const RunConfig& config) {
  Result result;
  // Budget: a traced run splits the window between an untraced and a
  // traced run; set-up, drain and stop take about three seconds.
  const int runs = config.trace ? 2 : 1;
  const double window = std::max(1.0, (config.seconds - 3.0) / runs);
  const auto arrivals =
      poisson_trace(config.seed, kRateHz, static_cast<int>(kRateHz * window));

  if (!config.trace) {
    const GatewayRun s = serve_trace(arrivals, false, nullptr);
    check_run(s, result);
    const auto latency = client_latency_ms(s);
    std::size_t ok = 0;
    for (const double ms : latency) ok += ms <= kLimitS * 1e3 ? 1 : 0;
    const double n = static_cast<double>(arrivals.size());
    result.set("setup_s", median(s.setup_s), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MiB");  // before the DES capacity ladder
    result.set("ok_share", static_cast<double>(ok) / n, "share");
    result.set("p50_ms", quantile(latency, 0.50), "ms");
    result.set("p99_ms", quantile(latency, 0.99), "ms");
    result.set("capacity_rps", capacity_rps(steady_shape(), config.seed), "1/s");
    result.set("energy_j", s.energy_per_completed_j, "J");
    result.set("host_us_per_request", s.host_cpu_s * 1e6 / n, "us");
    result.set("inferences_per_s", static_cast<double>(latency.size()) / s.window_s, "1/s");
    return result;
  }

  const GatewayRun plain = serve_trace(arrivals, false, nullptr);
  check_run(plain, result);
  SpanLog log;
  const GatewayRun traced = serve_trace(arrivals, true, &log);
  check_run(traced, result);

  const std::size_t n = arrivals.size();
  std::vector<double> accept_us, overhead_us, late_us;
  for (std::size_t i = 0; i < n; ++i) {
    const double late = traced.send_s[i] - traced.due_s[i];
    late_us.push_back(late * 1e6);
    accept_us.push_back((traced.reader.accept_s[i] - traced.send_s[i]) * 1e6);
    overhead_us.push_back(
        ((traced.reader.done_s[i] - traced.send_s[i]) * 1e3 - traced.reader.recorded_ms[i]) *
        1e3);
    const std::int64_t id = static_cast<std::int64_t>(i);
    const auto request = static_cast<std::int64_t>(log.spans().size());
    log.add({"gateway.request", traced.due_s[i], traced.reader.done_s[i], -1, id});
    log.add({"loadgen.late", traced.due_s[i], traced.send_s[i], request, id});
    log.add({"gateway.accept", traced.send_s[i], traced.reader.accept_s[i], request, id});
  }
  const auto plan_us = log.durations_us("core.plan");
  double planner_us = 0.0;
  for (const double d : plan_us) planner_us += d;
  const double host_us = traced.host_cpu_s * 1e6;
  const double dn = static_cast<double>(n);
  result.set("core.plan_us.p50", quantile(plan_us, 0.50), "us");
  result.set("core.plan_us.p99", quantile(plan_us, 0.99), "us");
  result.set("core.plans_per_request", static_cast<double>(traced.plans) / dn, "count");
  result.set("core.cache_hit_share",
             traced.plans > 0 ? static_cast<double>(traced.cache_hits) /
                                    static_cast<double>(traced.plans)
                              : 0.0,
             "share");
  result.set("core.event_us.p99", quantile(log.durations_us("core.event"), 0.99), "us");
  result.set("core.host_share", host_us > 0.0 ? planner_us / host_us : 0.0, "share");
  result.set("partition.cold_builds", static_cast<double>(traced.delta.cold_replans), "count");
  result.set("partition.repaired_plans", static_cast<double>(traced.delta.repaired_plans),
             "count");
  result.set("partition.repriced_rows", static_cast<double>(traced.delta.partial_repriced_rows),
             "count");
  result.set("sim.events_per_request", static_cast<double>(traced.events) / dn, "count");
  result.set("runtime.self_us_per_request", (host_us - planner_us) / dn, "us");
  result.set("runtime.ns_per_event",
             traced.events > 0 ? (host_us - planner_us) * 1e3 / static_cast<double>(traced.events)
                               : 0.0,
             "ns");
  result.set("runtime.retries", static_cast<double>(traced.stats.retries), "count");
  result.set("runtime.evacuations", static_cast<double>(traced.evacuations), "count");
  result.set("runtime.steals", static_cast<double>(traced.steals), "count");
  result.set("runtime.failed", static_cast<double>(traced.stats.failed), "count");
  result.set("gateway.accept_us.p50", quantile(accept_us, 0.50), "us");
  result.set("gateway.accept_us.p99", quantile(accept_us, 0.99), "us");
  result.set("gateway.overhead_us.p50", quantile(overhead_us, 0.50), "us");
  result.set("gateway.overhead_us.p99", quantile(overhead_us, 0.99), "us");
  result.set("loadgen.late_us.p99", quantile(late_us, 0.99), "us");
  result.set("loadgen.late_us.max", *std::max_element(late_us.begin(), late_us.end()), "us");
  const double base = plain.host_cpu_s;
  result.set("trace.overhead_share", base > 0.0 ? traced.host_cpu_s / base - 1.0 : 0.0,
             "share");
  if (!config.spans_path.empty()) log.write_jsonl(config.spans_path);
  return result;
}

}  // namespace perfbench
