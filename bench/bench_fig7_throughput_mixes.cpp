// Figure 7: throughput (inferences per 100 s) of the four strategies over
// the paper's eight DNN mixes (Mix 1-4: two models, Mix 5-8: three models),
// under a saturated request stream.
//
// Paper shape to reproduce: HiDP highest throughput on every mix, up to
// ~150% higher (Mix-2) and ~56% higher on average.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

int main() {
  using namespace hidp;
  runtime::ModelSet models;
  const auto mixes = runtime::paper_mixes();
  constexpr int kRequests = 24;
  constexpr double kInterval = 0.04;  // saturating arrival rate

  util::Table table("Fig. 7 — throughput [inferences / 100 s] over DNN mixes");
  std::vector<std::string> header{"strategy"};
  for (std::size_t m = 0; m < mixes.size(); ++m) header.push_back("Mix-" + std::to_string(m + 1));
  header.push_back("avg");
  table.set_header(header);
  util::CsvWriter csv({"strategy", "mix", "throughput_per_100s"});

  std::map<std::string, std::vector<double>> throughput;
  for (const std::string& name : bench::strategy_names()) {
    std::vector<std::string> row{name};
    for (std::size_t m = 0; m < mixes.size(); ++m) {
      auto strategy = bench::make_strategy(name);
      util::Rng rng(1000 + m);  // identical arrival pattern for all strategies
      const auto requests = runtime::mixed_stream(models, mixes[m], kRequests, kInterval, rng);
      const auto result = bench::run_requests(*strategy, requests);
      throughput[name].push_back(result.metrics.throughput_per_100s);
      row.push_back(util::fmt(result.metrics.throughput_per_100s, 0));
      csv.add_row({name, "Mix-" + std::to_string(m + 1),
                   util::fmt(result.metrics.throughput_per_100s, 2)});
    }
    row.push_back(util::fmt(util::mean(throughput[name]), 0));
    table.add_row(row);
  }
  std::printf("%s\n", table.to_string().c_str());

  util::Table gain("HiDP throughput gain per mix (paper: up to 150%, avg 56%)");
  std::vector<std::string> gheader{"vs"};
  for (std::size_t m = 0; m < mixes.size(); ++m) gheader.push_back("Mix-" + std::to_string(m + 1));
  gheader.push_back("avg");
  gain.set_header(gheader);
  for (const std::string& name : bench::strategy_names()) {
    if (name == "HiDP") continue;
    std::vector<std::string> row{name};
    std::vector<double> gains;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
      const double g = (throughput["HiDP"][m] - throughput[name][m]) / throughput[name][m];
      gains.push_back(g);
      row.push_back(std::string("+").append(util::fmt_pct(g, 0)));
    }
    row.push_back(std::string("+").append(util::fmt_pct(util::mean(gains), 0)));
    gain.add_row(row);
  }
  std::printf("%s\n", gain.to_string().c_str());
  csv.write_file("fig7_throughput_mixes.csv");
  return 0;
}
