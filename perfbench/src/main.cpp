// perfbench: the repository's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Runs one workload for about <s> seconds on inputs generated from <n>,
// checks the program's outputs, prints each metric as "name value unit",
// and ends with one JSON line {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the spans of one traced pass to --spans). Exits 1 when any
// output check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics of BENCHMARK.json.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},        {"peak_rss_mb", "MiB"},   {"ok_share", "share"},
    {"p50_ms", "ms"},        {"p99_ms", "ms"},         {"capacity_rps", "1/s"},
    {"energy_j", "J"},       {"host_us_per_request", "us"}, {"inferences_per_s", "1/s"},
};
constexpr MetricName kPerLayer[] = {
    {"core.plan_us.p50", "us"},          {"core.plan_us.p99", "us"},
    {"core.plans_per_request", "count"}, {"core.cache_hit_share", "share"},
    {"core.event_us.p99", "us"},         {"core.host_share", "share"},
    {"partition.cold_builds", "count"},  {"partition.repaired_plans", "count"},
    {"partition.repriced_rows", "count"}, {"sim.events_per_request", "count"},
    {"runtime.self_us_per_request", "us"}, {"runtime.ns_per_event", "ns"},
    {"runtime.retries", "count"},        {"runtime.evacuations", "count"},
    {"runtime.steals", "count"},         {"runtime.failed", "count"},
    {"gateway.accept_us.p50", "us"},     {"gateway.accept_us.p99", "us"},
    {"gateway.overhead_us.p50", "us"},   {"gateway.overhead_us.p99", "us"},
    {"loadgen.late_us.p99", "us"},       {"loadgen.late_us.max", "us"},
    {"tensor.reference_ms.p50", "ms"},   {"tensor.partitioned_ms.p50", "ms"},
    {"tensor.gflops", "GFLOP/s"},        {"tensor.halo_overlap", "share"},
    {"trace.overhead_share", "share"},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet-steady|fleet-faults|gateway-open|tensor-exec "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--spans") {
      config.spans_path = value;
    } else {
      usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0.0) {
    usage();
    return 2;
  }

  perfbench::Result result;
  try {
    if (config.workload == "fleet-steady") {
      result = perfbench::run_fleet_steady(config);
    } else if (config.workload == "fleet-faults") {
      result = perfbench::run_fleet_faults(config);
    } else if (config.workload == "gateway-open") {
      result = perfbench::run_gateway_open(config);
    } else if (config.workload == "tensor-exec") {
      result = perfbench::run_tensor_exec(config);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(), e.what());
    return 1;
  }

  // Every run reports the full metric set of its mode. A layer the workload
  // does not reach reports 0 (its per-layer row is "not exercised").
  if (config.trace) {
    for (const MetricName& m : kPerLayer) {
      if (result.metrics.count(m.name) == 0) result.set(m.name, 0.0, m.unit);
    }
  } else {
    for (const MetricName& m : kEndToEnd) {
      if (result.metrics.count(m.name) == 0) {
        std::fprintf(stderr, "perfbench: %s did not report %s\n", config.workload.c_str(), m.name);
        return 1;
      }
    }
  }
  if (config.workload == "tensor-exec" && config.trace) {
    std::printf("note: tensor.gflops counts FLOPs computed from the graph, not measured\n");
  }

  for (const std::string& what : result.violations) {
    std::printf("check failed: %s\n", what.c_str());
  }
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%-32s %.6g %s\n", name.c_str(), metric.first, metric.second.c_str());
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char buffer[96];
  for (const auto& [name, metric] : result.metrics) {
    if (!first) json += ", ";
    first = false;
    std::snprintf(buffer, sizeof(buffer), "%.17g", metric.first);
    json += "\"" + name + "\": {\"value\": " + buffer + ", \"unit\": \"" + metric.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
